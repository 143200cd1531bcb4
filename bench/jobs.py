"""Job sets of the in-process workloads: quiver, resolve and stable.

A builder is the set-up of one round: it loads catalogs, builds every input
and returns the jobs in order.  ``rng`` (seeded by the run's seed) picks the
moduli, the same in every round; ``order_rng`` (seeded by the seed and the
round) picks the order of the groups of jobs.  Inside a group (one
catalog's jobs, say) the order is fixed, because later jobs reuse the
caches earlier ones filled.  The worker collects garbage before every
job, so a job's collector pauses come from its own allocations, whatever
order the groups run in.

A job's ``fn`` is the timed call into mcmkit; it returns plain data (numbers,
names, strings) that ``check`` compares with a closed form from
``checks.py``.  Jobs of one group share a ``state`` dict, so later jobs
reuse the objects (and the caches) earlier ones produced.

mcmkit is reached through module attributes at call time (``mq.build_quiver``),
so the tracer's wrappers apply when a traced round installs them.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import checks

CURVES = [f"ade:A{n}:dim1" for n in range(1, 9)]
SURFACES = [f"ade:A{n}:dim2" for n in range(1, 5)]
CATALOGS = CURVES + SURFACES

# Moduli the seed picks from.  Curves of even n need an odd p not dividing
# 2(n+1); curves of odd n and all surfaces also need p = 1 mod 4.
EVEN_CURVE_POOL = (5, 7, 11, 13)
SQRT_POOL = (5, 13, 17, 29)
PLAIN_POOL = (5, 7, 11, 13)  # rings with no constraint beyond p > 3
CUBIC_POOL = (7, 13, 19)     # p = 1 mod 3, like the p = 7 of the acceptance test

# Known faults that fail on every run (ROADMAP item 1); the workloads keep them.
FAULT_STALL = "kernel_step stall rule stops before the Koszul syzygy in degree a+b"
FAULT_ISO = "is_isomorphic enumerates, then raises Inconclusive at hom dim 12"

FAMILY = [(a, b) for a in range(1, 6) for b in range(a, 6)]
SMALL_CIS = [  # (variables, relations, H)
    (("x", "y"), ("x^2", "y^2"), 12),
    (("x", "y", "z", "w"), ("x*y", "z*w"), 6),
    (("x", "y", "z"), ("x*y", "z^2"), 8),
    (("x", "y", "z"), ("x^2", "y^2", "z^2"), 6),
    (("x", "y", "z"), ("x^3+y^3+z^3",), 8),
]
DIRECT_SUMS = [  # summand names of the two sides, over ade:A3:dim1 at p = 5
    (("N+", "N-"), ("N-", "N+")),
    (("N+", "N+"), ("N+", "N-")),
    (("N-", "N-"), ("N+", "N+")),
    (("N+", "N+", "N-"), ("N+", "N-", "N+")),
    (("N+", "N+", "N+"), ("N+", "N+", "N-")),
    (("N+", "N+", "N+", "N+"), ("N+", "N+", "N+", "N-")),
]


@dataclass
class Job:
    name: str
    fn: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    known_fault: Optional[str] = None


def _mk(name):
    return importlib.import_module(f"mcmkit.{name}")


def catalog_index(name: str):
    _, an, dim = name.split(":")
    return int(an[1:]), int(dim[3:])


def admissible(name: str, p: int) -> bool:
    n, dim = catalog_index(name)
    if (2 * (n + 1)) % p == 0:
        return False
    return dim == 1 and n % 2 == 0 or p % 4 == 1


def pick_modulus(rng: random.Random, name: str) -> int:
    n, dim = catalog_index(name)
    pool = EVEN_CURVE_POOL if dim == 1 and n % 2 == 0 else SQRT_POOL
    return rng.choice([p for p in pool if admissible(name, p)])


def pick_moduli(rng: random.Random) -> Dict[str, int]:
    return {name: pick_modulus(rng, name) for name in CATALOGS}


def _expect(label, got, want) -> Optional[str]:
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _shuffle_groups(order_rng, groups: List[List[Job]]) -> List[Job]:
    order_rng.shuffle(groups)
    return [job for g in groups for job in g]


# ---------------------------------------------------------------------------
# quiver
# ---------------------------------------------------------------------------

def _quiver_group(name: str, p: int) -> List[Job]:
    mc, mq = _mk("catalog"), _mk("quiver")
    n, dim = catalog_index(name)
    cat = mc.load_catalog(name, p)
    st: Dict[str, Any] = {}
    want = checks.known_ar_quiver(n, dim)
    names = ["A"] + [mname for mname, _ in cat.mfs]

    def build():
        q = mq.build_quiver(cat)
        st["q"] = q
        st["e"] = {v.name: v.e for v in q.vertices}
        return ({(q.vertices[a].name, q.vertices[b].name): m for (a, b), m in q.arrows.items()},
                dict(st["e"]))

    def check_build(out):
        arrows, e = out
        return (_expect(f"{name} arrows", arrows, want)
                or _expect(f"{name} e", e, {v: checks.expected_e(v) for v in names}))

    def reverse(functor):
        def fn():
            return mq.reverse_iso_check(st["q"], functor)[0]
        return fn

    def middle_terms():
        out = {}
        for v in names[1:]:
            ar = mq.middle_term(st["q"], v)
            out[v] = (ar.tau_name, ar.e_middle)
        return out

    def check_middle(out):
        for v, (tau_name, e_mid) in out.items():
            problem = _expect(f"{name} e(E_{v})", e_mid, st["e"][v] + st["e"][tau_name])
            if problem is not None:
                return problem
        return checks.tau_is_bijection({v: t for v, (t, _) in out.items()}, names[1:])

    jobs = [Job(f"{name}/build_quiver", build, check_build)]
    for functor in ("D", "lambda"):
        jobs.append(Job(f"{name}/reverse_iso_check[{functor}]", reverse(functor),
                        lambda ok, f=functor: _expect(f"{name} reverse {f}", ok, True)))
    # all middle terms in one job: a single one takes a few milliseconds,
    # too short to time steadily on a shared host
    jobs.append(Job(f"{name}/middle_terms", middle_terms, check_middle))
    return jobs


def build_quiver_jobs(rng: random.Random, order_rng: random.Random) -> List[Job]:
    moduli = pick_moduli(rng)
    return _shuffle_groups(order_rng, [_quiver_group(c, moduli[c]) for c in CATALOGS])


# ---------------------------------------------------------------------------
# resolve
# ---------------------------------------------------------------------------

def _once(obj):
    """A one-shot holder: a resolve job drops its input (and the caches on
    it) when it ends, so the worker's peak memory does not depend on the
    order of the jobs."""
    box = [obj]
    return box.pop


def _betti_job(name, module, H, want, fault=None):
    mr = _mk("resolution")
    take = _once(module)
    return Job(name, lambda: mr.resolve(take(), H).betti_numbers(H),
               lambda got: checks.compare(name, got, want), fault)


def _tail_job(name, module, size):
    mm = _mk("mf")
    take = _once(module)

    def fn():
        mf, _ = mm.from_resolution_tail(take(), H=12)
        R = mf.poly_ring
        text = R.ambient.poly_to_str
        return (list(R.variables), R.characteristic, text(mf.f.poly),
                [[text(e.poly) for e in row] for row in mf.phi],
                [[text(e.poly) for e in row] for row in mf.psi])

    def check(out):
        variables, p, f, phi, psi = out
        return (_expect(f"{name} size", len(phi), size)
                or checks.mf_product_error(variables, p, f, phi, psi))

    return Job(name, fn, check)


def build_resolve_jobs(rng: random.Random, order_rng: random.Random) -> List[Job]:
    mc, mmod, mr = _mk("catalog"), _mk("modules"), _mk("rings")
    mci = _mk("cisupport")
    moduli = pick_moduli(rng)
    jobs: List[Job] = []
    for cname in CATALOGS:
        p = moduli[cname]
        listing = mc.load_catalog(cname, p)
        e = len(listing.ring.variables)  # embedding dimension: f lies in m^2
        for mname, mf in listing.mfs:
            M = dict(mc.load_catalog(cname, p).modules())[mname]
            jobs.append(_betti_job(f"{cname}/{mname}/resolve", M, 12, [mf.size] * 13))
            M = dict(mc.load_catalog(cname, p).modules())[mname]
            jobs.append(_tail_job(f"{cname}/{mname}/from_resolution_tail", M, mf.size))
        k = mmod.residue_field_module(mc.load_catalog(cname, p).ring)
        jobs.append(_betti_job(f"{cname}/k/resolve", k, 8, checks.tate_betti(e, 1, 9)))
        m = mmod.maximal_ideal_module(mc.load_catalog(cname, p).ring)
        jobs.append(_betti_job(f"{cname}/m/resolve", m, 7, checks.tate_betti(e, 1, 9)[1:]))
    for variables, relations, H in SMALL_CIS:
        p = rng.choice(PLAIN_POOL if len(relations) > 1 else CUBIC_POOL)
        A = mr.WeightedPolyRing(p, list(variables)).quotient(list(relations))
        want = checks.tate_betti(len(variables), len(relations), H + 1)
        jobs.append(_betti_job(f"ci({','.join(relations)})/k/resolve",
                               mmod.residue_field_module(A), H, want))
    A = mc.nonci_gorenstein_ring(rng.choice(PLAIN_POOL))
    jobs.append(_betti_job("nonci/k/resolve", mmod.residue_field_module(A), 5,
                           checks.nonci_betti(6)))

    p = rng.choice(PLAIN_POOL)

    def square_ring():  # k[x,y]/(x^2, y^2), a new object for each job
        A = mr.WeightedPolyRing(p, ["x", "y"]).quotient(["x^2", "y^2"])
        return mci.CIPresentation.from_ring(A), A

    ci, A = square_ring()
    take_k = _once(mmod.residue_field_module(A))

    def operators():
        ext = mci.eisenbud_operators(ci, take_k(), H=12)
        return ext.commute_exactly(), list(ext.betti[:13])

    jobs.append(Job("ci(x^2,y^2)/k/eisenbud_operators", operators,
                    lambda out: (_expect("operators commute", out[0], True)
                                 or checks.compare("ext betti", out[1],
                                                   checks.tate_betti(2, 2, 13)))))
    ci_x, A = square_ring()
    take_x = _once(mmod.GradedModule(A, [0], [1], [["x"]], label="A/(x)"))

    def support():
        ext = mci.eisenbud_operators(ci_x, take_x(), H=10)
        rep = mci.support_annihilator_window(ext, tdeg_max=2)
        return rep.cx_from_variety, rep.is_point

    # A/(x) has a 1-periodic resolution: complexity 1, support a single point
    jobs.append(Job("ci(x^2,y^2)/A/(x)/support_annihilator_window", support,
                    lambda out: _expect("cx, is_point", out, (1, True))))

    for a, b in FAMILY:
        A = mr.WeightedPolyRing(7, ["x", "y", "z"]).quotient(["z^2"])
        M = mmod.GradedModule(A, [0], [a, b], [[f"x^{a}", f"y^{b}"]], label=f"A/(x^{a},y^{b})")
        jobs.append(_betti_job(f"koszul(x^{a},y^{b})/resolve", M, 4, checks.koszul_betti(5),
                               FAULT_STALL if min(a, b) >= 4 else None))
    order_rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# stable
# ---------------------------------------------------------------------------

def _mu(M) -> int:
    return M.minimized().num_gens


def _stable_module_job(cname, dim, mname, M, size) -> Job:
    """One job per catalog module: its functor images, then the identities
    between them, on the same objects, so the later steps find the caches the
    earlier ones filled."""
    mf, mh, mres = _mk("functors"), _mk("homs"), _mk("resolution")
    tag = f"{cname}/{mname}"

    def run():
        D, L = mf.dual(M), mf.link(M)
        images = {
            "D": D, "link": L, "cosyz(D)": mf.cosyzygy(D, 1), "tau": mf.tau(M, dim),
            "syz1": mres.syzygy(M, 1), "syz3": mres.syzygy(M, 3),
            "link(link)": mf.link(L), "D(D)": mf.dual(D), "M": M,
        }
        pairs = [("link o link = id", "link(link)", "M"), ("D o D = id", "D(D)", "M"),
                 ("cosyz o D = link", "cosyz(D)", "link"), ("syz3 = syz1", "syz3", "syz1")]
        if dim == 2:
            pairs.append(("link = id", "link", "M"))
        return ({key: _mu(X) for key, X in images.items()},
                {label: mh.is_isomorphic(images[a], images[b]) for label, a, b in pairs})

    def check(out):
        mus, isos = out
        # every functor here maps an indecomposable of the catalog to another
        # one of the same matrix-factorization size
        bad_mu = {key: mu for key, mu in mus.items() if mu != size}
        bad_iso = [label for label, ok in isos.items() if ok is not True]
        if bad_mu or bad_iso:
            return f"{tag}: mu != {size} for {bad_mu}; identities failing: {bad_iso}"
        return None

    return Job(f"{tag}/functors", run, check)


def _direct_sum_jobs() -> List[Job]:
    mc, mh, mmod = _mk("catalog"), _mk("homs"), _mk("modules")
    mods = dict(mc.load_catalog("ade:A3:dim1", 5).modules())
    jobs = []
    for left, right in DIRECT_SUMS:
        L = mmod.GradedModule.direct_sum([mods[s] for s in left])
        R = mmod.GradedModule.direct_sum([mods[s] for s in right])
        want = checks.ks_isomorphic(left, right)
        fault = FAULT_ISO if len(left) == 4 else None
        jobs.append(Job(f"ade:A3:dim1@5/{'+'.join(left)} ~ {'+'.join(right)}",
                        lambda L=L, R=R: mh.is_isomorphic(L, R),
                        lambda ok, w=want: _expect("Krull-Schmidt", ok, w), fault))
    return jobs


def _cubic_cone_jobs(p: int) -> List[Job]:
    mr, mmod, mf, mh = _mk("rings"), _mk("modules"), _mk("functors"), _mk("homs")
    A = mr.WeightedPolyRing(p, ["x", "y", "z"]).quotient(["x^3+y^3+z^3"])
    m = mmod.maximal_ideal_module(A)
    st: Dict[str, Any] = {}
    tag = f"cubic_cone@{p}"

    def approx():
        st["X"] = mf.mcm_approx(m, degree_cap=14)
        return _mu(st["X"])

    def stable():
        st["M"], _ = mf.stable_part(st["X"])
        return _mu(st["M"])

    def split():
        dec = mh.decompose(st["M"])
        return dec.certified, [mult for _, mult in dec.summands]

    def invariants():
        inv = mmod.invariants(st["M"])
        return inv.multiplicity_e, (inv.rank.numerator, inv.rank.denominator)

    def dual():
        st["D"] = mf.dual(st["M"])
        return _mu(st["D"])

    return [
        Job(f"{tag}/mcm_approx(m)", approx, lambda mu: None if mu > 0 else "X(m) is zero"),
        Job(f"{tag}/stable_part", stable, lambda mu: None if mu > 0 else "X(m) is free"),
        # the paper's rank-two self-dual module: indecomposable, e = 2 e(A) = 6
        Job(f"{tag}/decompose", split,
            lambda out: _expect("certified, one summand", out, (True, [1]))),
        Job(f"{tag}/invariants", invariants, lambda out: _expect("e, rank", out, (6, (2, 1)))),
        Job(f"{tag}/dual", dual, lambda mu: None if mu > 0 else "D(X) is zero"),
        Job(f"{tag}/is_isomorphic[D(X) = X]", lambda: mh.is_isomorphic(st["D"], st["M"]),
            lambda ok: _expect("self-dual", ok, True)),
    ]


def build_stable_jobs(rng: random.Random, order_rng: random.Random) -> List[Job]:
    mc = _mk("catalog")
    moduli = pick_moduli(rng)
    groups = []
    for cname in CATALOGS:
        cat = mc.load_catalog(cname, moduli[cname])
        sizes = {mname: mf.size for mname, mf in cat.mfs}
        groups.append([_stable_module_job(cname, cat.dim, mname, M, sizes[mname])
                       for mname, M in cat.modules()])
    groups.append(_direct_sum_jobs())
    groups.append(_cubic_cone_jobs(rng.choice(CUBIC_POOL)))
    return _shuffle_groups(order_rng, groups)


BUILDERS = {
    "quiver": build_quiver_jobs,
    "resolve": build_resolve_jobs,
    "stable": build_stable_jobs,
}
