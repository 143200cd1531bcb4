"""Shipped catalogs of indecomposable matrix factorizations (A_n type).

Curve singularities x^2 + y^(n+1) for n <= 8 and surface singularities
x^2 + y^2 + z^(n+1) for n <= 4.  Each entry records its field
constraints: the modulus must keep the singularity isolated (p does not
divide 2(n+1)) and, where a square root of -1 appears in the matrices,
p = 1 mod 4.  The loader rejects incompatible moduli.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import List, Optional, Tuple

from .errors import UsageError
from .mf import MatrixFactorization, coker_module
from .modules import GradedModule, free_module
from .rings import QuotientRing, WeightedPolyRing

__all__ = [
    "CatalogData",
    "load_catalog",
    "catalog_names",
    "sqrt_minus_one",
    "nonci_gorenstein_ring",
]


def nonci_gorenstein_ring(p: int = 7) -> QuotientRing:
    """An Artinian Gorenstein ring that is not a complete intersection.

    Socle degree 2, Hilbert function (1, 3, 1), five quadric relations:
    the residue field has exponential Betti growth (curvature > 1).
    """
    R = WeightedPolyRing(p, ["x", "y", "z"])
    return R.quotient(["x*y", "x*z", "y*z", "x^2-y^2", "x^2-z^2"])


def sqrt_minus_one(p: int) -> int:
    """The smaller square root of -1 in GF(p), for a prime p = 1 mod 4."""
    if p % 4 != 1:
        raise UsageError(f"GF({p}) has no square root of -1 (need p = 1 mod 4)")
    # c^((p-1)/4) squares to -1 for every non-residue c, half of all c; the smaller root
    for c in range(2, p):
        a = pow(c, (p - 1) // 4, p)
        if a * a % p == p - 1:
            return min(a, p - a)
    raise UsageError(f"no square root of -1 found in GF({p})")


@dataclass
class CatalogData:
    name: str
    modulus: int
    ambient: WeightedPolyRing
    f: str
    ring: QuotientRing
    mfs: List[Tuple[str, MatrixFactorization]]
    dim: int

    _modules: Optional[List[Tuple[str, GradedModule]]] = field(default=None, repr=False)

    def free_vertex(self) -> GradedModule:
        return free_module(self.ring, [0], label="A")

    def modules(self) -> List[Tuple[str, GradedModule]]:
        """Normalized cokernels of the catalog factorizations."""
        if self._modules is None:
            out = []
            for name, mf in self.mfs:
                M = coker_module(mf, ring=self.ring)
                M, _ = M.normalized()
                M.label = name
                out.append((name, M))
            self._modules = out
        return self._modules


def _an_curve(n: int, p: Optional[int]) -> CatalogData:
    if not 1 <= n <= 8:
        raise UsageError(f"A{n} curve catalog not shipped (n <= 8)")
    odd = n % 2 == 1
    if p is None:
        for cand in (7, 5, 13, 11):
            if 2 * (n + 1) % cand == 0:
                continue
            if odd and cand % 4 != 1:
                continue
            p = cand
            break
    if p is None or 2 * (n + 1) % p == 0:
        raise UsageError(f"modulus {p} incompatible with A{n} curve (p | 2(n+1))")
    if odd and p % 4 != 1:
        raise UsageError(f"A{n} curve needs sqrt(-1): modulus must be 1 mod 4, got {p}")
    R = WeightedPolyRing(p, ["x", "y"], [n + 1, 2])
    f = f"x^2+y^{n + 1}"
    ring = R.quotient([f])
    fpoly = ring.relations[0]  # f, parsed once; the entries are exponent dicts
    mfs: List[Tuple[str, MatrixFactorization]] = []
    m = (n + 1) // 2
    top = n // 2
    for j in range(1, top + 1):
        phi = [[{(1, 0): 1}, {(0, j): 1}], [{(0, n + 1 - j): 1}, {(1, 0): -1}]]
        mfs.append((f"I{j}", MatrixFactorization(R, fpoly, phi, phi, label=f"I{j}")))
    if odd:
        i = sqrt_minus_one(p)
        plus = [[{(1, 0): 1, (0, m): i}]]
        minus = [[{(1, 0): 1, (0, m): -i}]]
        mfs.append(("N+", MatrixFactorization(R, fpoly, plus, minus, label="N+")))
        mfs.append(("N-", MatrixFactorization(R, fpoly, minus, plus, label="N-")))
    return CatalogData(f"ade:A{n}:dim1", p, R, f, ring, mfs, dim=1)


def _an_surface(n: int, p: Optional[int]) -> CatalogData:
    if not 1 <= n <= 4:
        raise UsageError(f"A{n} surface catalog not shipped (n <= 4)")
    if p is None:
        for cand in (5, 13, 17):
            if 2 * (n + 1) % cand == 0:
                continue
            if cand % 4 != 1:
                continue
            p = cand
            break
    if p is None or p % 4 != 1:
        raise UsageError(f"A{n} surface needs sqrt(-1): modulus must be 1 mod 4, got {p}")
    if 2 * (n + 1) % p == 0:
        raise UsageError(f"modulus {p} incompatible with A{n} surface (p | 2(n+1))")
    w = [n + 1, n + 1, 2]
    g = gcd(gcd(w[0], w[1]), w[2])
    w = [a // g for a in w]
    R = WeightedPolyRing(p, ["x", "y", "z"], w)
    f = f"x^2+y^2+z^{n + 1}"
    ring = R.quotient([f])
    fpoly = ring.relations[0]  # f, parsed once; the entries are exponent dicts
    i = sqrt_minus_one(p)
    # u = x + i*y, v = x - i*y and their negatives
    u, v = {(1, 0, 0): 1, (0, 1, 0): i}, {(1, 0, 0): 1, (0, 1, 0): -i}
    minus_u, minus_v = ({mono: -c for mono, c in e.items()} for e in (u, v))
    mfs = []
    for j in range(1, n + 1):
        zj, zk = {(0, 0, j): 1}, {(0, 0, n + 1 - j): 1}
        phi = [[u, zj], [zk, minus_v]]
        psi = [[v, zj], [zk, minus_u]]
        mfs.append((f"M{j}", MatrixFactorization(R, fpoly, phi, psi, label=f"M{j}")))
    return CatalogData(f"ade:A{n}:dim2", p, R, f, ring, mfs, dim=2)


def catalog_names() -> List[str]:
    out = [f"ade:A{n}:dim1" for n in range(1, 9)]
    out += [f"ade:A{n}:dim2" for n in range(1, 5)]
    return out


def load_catalog(name: str, modulus: Optional[int] = None) -> CatalogData:
    """Load a shipped catalog, e.g. "ade:A3:dim1"."""
    parts = name.split(":")
    if len(parts) != 3 or parts[0] != "ade" or not parts[1].startswith("A"):
        raise UsageError(f"unknown catalog {name!r}; known: {', '.join(catalog_names())}")
    try:
        n = int(parts[1][1:])
    except ValueError:
        raise UsageError(f"bad catalog index in {name!r}")
    if parts[2] == "dim1":
        return _an_curve(n, modulus)
    if parts[2] == "dim2":
        return _an_surface(n, modulus)
    raise UsageError(f"unknown catalog dimension {parts[2]!r} in {name!r}")
